"""Determinism battery: the property the parallel runner stands on.

``(program, scheduler, seed)`` must exactly determine a run — that is
what lets seeded trials fan out across processes and still merge into
bit-identical statistics.  Stress it over randomly generated programs:
same seed ⇒ identical trace, timeline rendering, and result; and verify
the schedule-prefix sharding the sharded DPOR walk builds on: the
frontier's shards, walked one by one, plus its direct outcomes are
exactly the serial DFS's leaves, cuts included, and overlapping shards
are refused at merge time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Bound,
    Exploration,
    Kernel,
    Outcome,
    SharedCell,
    SimLock,
    SimThread,
    Sleep,
    explore,
    merge_shards,
    render_timeline,
)
from repro.sim._reference import ReferenceKernel
from repro.sim.explore import _frontier
from repro.sim.replay import RecordingScheduler, ReplayDivergence
from repro.sim.scheduler import (
    NoiseScheduler,
    PCTScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.snapshot import _DFSScheduler
from repro.sim.trace import trace_fingerprint

# ---------------------------------------------------------------------------
# Random program generation (plain seeded random: one program per seed)
# ---------------------------------------------------------------------------


def random_program(seed: int):
    """A random well-formed concurrent program: 2-4 threads doing
    lock-guarded and bare increments over shared cells, sleeps and
    RNG-dependent branching on the kernel's application RNG."""
    rng = random.Random(seed)
    n_threads = rng.randint(2, 4)
    n_cells = rng.randint(1, 3)
    plans = []
    for _ in range(n_threads):
        plan = []
        for _ in range(rng.randint(1, 4)):
            plan.append((
                rng.randrange(n_cells),
                rng.randint(1, 3),
                rng.random() < 0.5,  # guarded?
                rng.random() < 0.3,  # sleep first?
            ))
        plans.append(plan)

    def build(kernel):
        cells = [SharedCell(0, name=f"c{i}") for i in range(n_cells)]
        locks = [SimLock(f"l{i}") for i in range(n_cells)]

        def body(plan):
            for cell_idx, incs, guarded, sleep_first in plan:
                if sleep_first:
                    yield Sleep(0.001 * (1 + kernel.rng.randrange(3)))
                if guarded:
                    yield from locks[cell_idx].acquire()
                for _ in range(incs):
                    v = yield from cells[cell_idx].get()
                    yield from cells[cell_idx].set(v + 1)
                if guarded:
                    yield from locks[cell_idx].release()

        for plan in plans:
            kernel.spawn(body, plan)
        return cells

    return build


def _run(prog_seed: int, sched_seed: int):
    k = Kernel(seed=sched_seed, record_trace=True)
    random_program(prog_seed)(k)
    result = k.run()
    return k, result


def _trace_tuples(trace):
    return [
        (e.seq, round(e.time, 9), e.tid, e.tname, e.op, str(e.obj), e.loc, str(e.extra))
        for e in trace
    ]


# ---------------------------------------------------------------------------
# Same seed ⇒ identical everything
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", range(4))
def test_same_seed_same_trace_and_timeline(batch):
    """25 random programs per batch, each run twice with equal seeds."""
    for prog_seed in range(batch * 25, batch * 25 + 25):
        sched_seed = prog_seed * 7 + 1
        k1, r1 = _run(prog_seed, sched_seed)
        k2, r2 = _run(prog_seed, sched_seed)
        assert (r1.time, r1.steps, r1.completed, r1.deadlocked, r1.stalled) == (
            r2.time, r2.steps, r2.completed, r2.deadlocked, r2.stalled
        )
        assert _trace_tuples(r1.trace) == _trace_tuples(r2.trace)
        assert render_timeline(r1.trace, limit=200) == render_timeline(r2.trace, limit=200)
        assert {n: (s.visits, s.hits) for n, s in r1.breakpoint_stats.items()} == {
            n: (s.visits, s.hits) for n, s in r2.breakpoint_stats.items()
        }


def test_different_seeds_do_diverge():
    """Sanity check that the stress test has teeth: across the program
    set, at least some pairs of seeds produce different traces."""
    diverged = 0
    for prog_seed in range(20):
        _, r1 = _run(prog_seed, 1)
        _, r2 = _run(prog_seed, 2)
        if _trace_tuples(r1.trace) != _trace_tuples(r2.trace):
            diverged += 1
    assert diverged > 0


# ---------------------------------------------------------------------------
# Prefix sharding: disjoint shards, deduplicated merge
# ---------------------------------------------------------------------------


def _small_program():
    """Fixed small program whose schedule tree is fully enumerable."""

    def build(kernel):
        cell = SharedCell(0, name="x")

        def body(incs):
            for _ in range(incs):
                v = yield from cell.get()
                yield from cell.set(v + 1)

        kernel.spawn(body, 2)
        kernel.spawn(body, 1)
        kernel.spawn(body, 1)

    return build


def _early_exit_program():
    """A writer, a checker that stops early once it sees the write, and a
    reader: schedules make 7 or 9 choices, and one preemption or one
    variable cuts branches."""

    def build(kernel):
        x = SharedCell(0, name="x")
        y = SharedCell(0, name="y")

        def bump():
            v = yield from x.get()
            yield from x.set(v + 1)

        def check():
            if (yield from x.get()):
                return
            v = yield from y.get()
            yield from y.set(v + 1)

        def read():
            yield from y.get()

        kernel.spawn(bump)
        kernel.spawn(check)
        kernel.spawn(read)

    return build


_FRONTIER_BOUNDS = {
    "unbounded": None,
    "preemptions-1": Bound(preemptions=1),
    "variables-1": Bound(variables=1),
}


def _leaf(o):
    return (o.choices, o.result.steps, o.result.time, o.weight, o.preemptions)


@pytest.mark.parametrize("bound_name", list(_FRONTIER_BOUNDS))
@pytest.mark.parametrize("shard_depth", [1, 2, 3, 8])
def test_frontier_shards_partition_the_serial_walk(shard_depth, bound_name):
    """Walking every frontier shard with ``explore(prefix=shard)`` and
    adding the frontier's direct outcomes (runs shorter than the shard
    depth) yields the serial walk's leaves, and frontier cuts plus
    shard cuts are the serial cuts."""
    bound = _FRONTIER_BOUNDS[bound_name]
    build = _early_exit_program()
    serial = explore(build, bound=bound)
    assert serial.complete
    shards, direct, (front_p, front_v) = _frontier(
        build, shard_depth, 20_000, 0, None, bound
    )
    assert shards == sorted(shards) and all(len(s) == shard_depth for s in shards)
    shortest = min(len(o.choices) for o in serial.outcomes)
    assert bool(direct) == (shard_depth > shortest)
    walks = [explore(build, prefix=shard, bound=bound) for shard in shards]
    leaves = [o for walk in walks for o in walk.outcomes] + direct
    assert sorted(map(_leaf, leaves)) == sorted(map(_leaf, serial.outcomes))
    assert front_p + sum(w.preemption_cuts for w in walks) == serial.preemption_cuts
    assert front_v + sum(w.variable_cuts for w in walks) == serial.variable_cuts
    if bound is not None:
        assert serial.preemption_cuts + serial.variable_cuts > 0


def test_prefix_restricts_to_subtree():
    full = explore(_small_program())
    first_choices = full.outcomes[0].choices
    prefix = list(first_choices[:2])
    sub = explore(_small_program(), prefix=prefix)
    sub_set = {o.choices for o in sub.outcomes}
    expected = {
        o.choices for o in full.outcomes if list(o.choices[:2]) == prefix
    }
    assert sub_set == expected
    assert sub_set  # non-empty by construction


def test_merge_shards_rejects_duplicates():
    """Overlapping shards (a violated disjointness precondition) must be
    rejected loudly, never silently double-counted."""
    ex = explore(_small_program(), max_schedules=5)
    a = Exploration(outcomes=list(ex.outcomes[:3]), complete=True)
    b = Exploration(outcomes=list(ex.outcomes[2:5]), complete=True)  # overlaps at [2]
    with pytest.raises(ValueError, match="duplicate schedule"):
        merge_shards([a, b])
    # Disjoint halves merge fine and sort canonically.
    c = Exploration(outcomes=list(ex.outcomes[3:5]), complete=True)
    merged = merge_shards([a, c])
    assert [o.choices for o in merged.outcomes] == sorted(
        o.choices for o in ex.outcomes[:5]
    )


# ---------------------------------------------------------------------------
# Fast kernel vs pre-rewrite reference: the differential battery
# ---------------------------------------------------------------------------

_SCHEDULER_FACTORIES = {
    "random": lambda seed: RandomScheduler(seed=seed),
    "round_robin": lambda seed: RoundRobinScheduler(),
    "pct": lambda seed: PCTScheduler(depth=3, steps_estimate=80, seed=seed),
    "noise": lambda seed: NoiseScheduler(seed=seed, p=0.2, max_delay=0.002),
}


def _run_differential(kernel_cls, prog_seed, sched_factory, sched_seed):
    rec = RecordingScheduler(sched_factory(sched_seed))
    k = kernel_cls(scheduler=rec, seed=prog_seed, record_trace=True)
    random_program(prog_seed)(k)
    result = k.run()
    return k, result, rec


def _result_facts(r):
    return (
        round(r.time, 9),
        r.steps,
        r.completed,
        r.deadlocked,
        r.stalled,
        r.limit_hit,
        [(f.thread_name, repr(f.exc), f.step) for f in r.failures],
    )


@pytest.mark.parametrize("sched_kind", sorted(_SCHEDULER_FACTORIES))
def test_fast_kernel_matches_reference(sched_kind):
    """The rewritten hot path must be indistinguishable from the
    pre-rewrite kernel: same scheduler choices (the scheduler sees the
    same ready lists and consumes the same RNG), bit-identical traces,
    same result facts, same end-of-run state signature."""
    factory = _SCHEDULER_FACTORIES[sched_kind]
    for prog_seed in range(10):
        sched_seed = prog_seed * 13 + 5
        kf, rf, recf = _run_differential(Kernel, prog_seed, factory, sched_seed)
        kr, rr, recr = _run_differential(ReferenceKernel, prog_seed, factory, sched_seed)
        assert recf.choices == recr.choices
        assert _trace_tuples(rf.trace) == _trace_tuples(rr.trace)
        assert trace_fingerprint(rf.trace) == trace_fingerprint(rr.trace)
        assert _result_facts(rf) == _result_facts(rr)
        assert kf.state_signature() == kr.state_signature()


def test_fast_kernel_matches_reference_untraced_facts():
    """Untraced runs (the production trial configuration) agree on every
    observable run fact and on the kernel state signature."""
    for prog_seed in range(10):
        sched_seed = prog_seed * 31 + 3
        kf = Kernel(scheduler=RandomScheduler(seed=sched_seed), seed=prog_seed)
        random_program(prog_seed)(kf)
        rf = kf.run()
        kr = ReferenceKernel(scheduler=RandomScheduler(seed=sched_seed), seed=prog_seed)
        random_program(prog_seed)(kr)
        rr = kr.run()
        assert _result_facts(rf) == _result_facts(rr)
        assert kf.state_signature() == kr.state_signature()


def test_fast_kernel_matches_reference_on_apps():
    """App-level differential: full benchmark apps (breakpoints, timers,
    policies) produce identical golden entries under both kernels."""
    from repro.apps.registry import get_app
    from repro.goldens import golden_entry

    for app_name in ("bank", "figure4", "log4j", "mysql-4.0.12"):
        app_cls = get_app(app_name)
        for bug in [None] + sorted(app_cls.bugs)[:1]:
            fast = golden_entry(app_cls, seed=3, bug=bug, kernel_cls=Kernel)
            ref = golden_entry(app_cls, seed=3, bug=bug, kernel_cls=ReferenceKernel)
            assert fast == ref, f"{app_name} bug={bug} diverged"


# ---------------------------------------------------------------------------
# The DFS explorers' scheduler: both kernels, and its pre-change form
# ---------------------------------------------------------------------------

_BOUNDS = {
    "unbounded": None,
    "preemptions-1": Bound(preemptions=1),
    "preemptions-0": Bound(preemptions=0),
}


def _dfs_facts(kernel_cls, prog_seed, prefix, bound):
    sched = _DFSScheduler(prefix, bound=bound)
    k = kernel_cls(scheduler=sched, seed=prog_seed)
    random_program(prog_seed)(k)
    k.run()
    return sched.choices, sched.runnable_sets, sched.preemptions, k.state_signature()


@pytest.mark.parametrize("bound_name", list(_BOUNDS))
def test_dfs_scheduler_matches_reference(bound_name):
    """The explorers' scheduler drives both kernels through the same
    choices over the random programs (sleeps included): the lowest-tid
    descent, and a replay with its deepest branching choice flipped
    into a forced prefix."""
    bound = _BOUNDS[bound_name]
    for prog_seed in range(10):
        fast = _dfs_facts(Kernel, prog_seed, [], bound)
        assert fast == _dfs_facts(ReferenceKernel, prog_seed, [], bound)
        choices, runnable_sets = fast[0], fast[1]
        depth = max(d for d, tids in enumerate(runnable_sets) if len(tids) > 1)
        alt = next(t for t in runnable_sets[depth] if t != choices[depth])
        prefix = choices[:depth] + [alt]
        flipped = _dfs_facts(Kernel, prog_seed, prefix, bound)
        assert flipped[0][: depth + 1] == prefix
        assert flipped == _dfs_facts(ReferenceKernel, prog_seed, prefix, bound)


class _PreChangeDFSScheduler(_DFSScheduler):
    """``_DFSScheduler.pick`` before its single-runnable fast path and
    index lookups, kept as the oracle of the property below."""

    def pick(self, runnable, step):
        tids = tuple(t.tid for t in runnable)
        depth = len(self.choices)
        if depth < len(self.prefix):
            wanted = self.prefix[depth]
            chosen = next(t for t in runnable if t.tid == wanted)
        else:
            chosen = runnable[0]
            b = self.bound
            if (
                b is not None
                and b.preemptions is not None
                and self.choices
                and self.preemptions >= b.preemptions
            ):
                prev = self.choices[-1]
                if chosen.tid != prev and prev in tids:
                    chosen = next(t for t in runnable if t.tid == prev)
        if self.choices:
            prev = self.choices[-1]
            if chosen.tid != prev and prev in tids:
                self.preemptions += 1
        self.choices.append(chosen.tid)
        self.runnable_sets.append(tids)
        return chosen


_THREADS = [SimThread(tid, f"T{tid}", None) for tid in range(5)]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    steps=st.lists(
        st.sets(st.integers(0, 4), min_size=1).map(sorted), min_size=1, max_size=25
    ),
    bound=st.none() | st.builds(
        Bound,
        preemptions=st.none() | st.integers(0, 3),
        variables=st.none() | st.integers(0, 2),
    ),
)
def test_dfs_pick_matches_pre_change_formulation(data, steps, bound):
    """Over random tid-sorted runnable sets, forced prefixes (now and
    then naming a thread that is not runnable) and budgets, the pick
    chooses the same thread and keeps the same record as its pre-change
    form; where that form raised a bare StopIteration, the pick raises
    ReplayDivergence."""
    prefix = []
    for tids in steps[: data.draw(st.integers(0, len(steps)), label="forced")]:
        if data.draw(st.integers(0, 9), label="diverge?") == 0:
            prefix.append(data.draw(st.integers(0, 4), label="any tid"))
        else:
            prefix.append(data.draw(st.sampled_from(tids), label="runnable tid"))
    new = _DFSScheduler(prefix, bound=bound)
    old = _PreChangeDFSScheduler(prefix, bound=bound)
    for step, tids in enumerate(steps):
        runnable = [_THREADS[t] for t in tids]
        try:
            want = old.pick(runnable, step)
        except StopIteration:
            with pytest.raises(ReplayDivergence):
                new.pick(runnable, step)
            return
        assert new.pick(runnable, step) is want
        assert (new.choices, new.runnable_sets, new.preemptions) == (
            old.choices, old.runnable_sets, old.preemptions
        )
