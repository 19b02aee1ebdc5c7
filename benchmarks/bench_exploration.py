"""Supplementary — how rare the buggy schedules actually are.

The paper's premise (Section 1): "bugs due to concurrency happen under
very specific thread schedules and the likelihood of taking such
corner-case schedules during regular testing is very low."  The
exhaustive explorer quantifies that premise exactly on small programs:
enumerate *all* interleavings, count the buggy ones, and compare with
the breakpoint-forced probability.
"""

import dataclasses
import time

from repro.core import ConflictTrigger
from repro.harness import render
from repro.sim import Kernel, RandomScheduler, SharedCell, SimLock, Sleep, explore

from conftest import emit


@dataclasses.dataclass
class ExpRow:
    label: str
    schedules: int
    buggy: int
    random_prob: float
    bp_prob: float

    HEADER = ["Program", "#Schedules", "#Buggy", "P(random)", "P(breakpoint)"]

    def cells(self):
        return [
            self.label,
            str(self.schedules),
            str(self.buggy),
            f"{self.random_prob:.3f}",
            f"{self.bp_prob:.2f}",
        ]


def _figure4ish(with_bp):
    """foo checks x==0 after k filler steps; bar writes x=1 first."""
    state = {}

    def build(kernel):
        cell = SharedCell(0, name="x")
        state["hit"] = False

        def foo():
            for _ in range(6):  # f1()..f6(): filler scheduling points
                yield from cell.get()
            if with_bp:
                yield from ConflictTrigger("fig4", cell).sim_trigger_here(True, 0.5)
            v = yield from cell.get()
            if v == 0:
                state["hit"] = True

        def bar():
            if with_bp:
                yield from ConflictTrigger("fig4", cell).sim_trigger_here(False, 0.5)
            yield from cell.set(1)

        kernel.spawn(foo)
        kernel.spawn(bar)

    return build, state


def _inversion(with_bp):
    state = {}

    def build(kernel):
        la, lb = SimLock("A"), SimLock("B")

        def t1():
            yield from la.acquire()
            yield Sleep(0.0)
            yield from lb.acquire()
            yield from lb.release()
            yield from la.release()

        def t2():
            yield from lb.acquire()
            yield Sleep(0.0)
            yield from la.acquire()
            yield from la.release()
            yield from lb.release()

        kernel.spawn(t1)
        kernel.spawn(t2)

    return build, state


def _random_prob(build_fn, pred, n=200):
    hits = 0
    for seed in range(n):
        build, state = build_fn(False)
        k = Kernel(scheduler=RandomScheduler(seed))
        build(k)
        result = k.run()
        hits += pred(result, state)
    return hits / n


def _bp_prob(build_fn, pred, n=100):
    hits = 0
    for seed in range(n):
        build, state = build_fn(True)
        k = Kernel(scheduler=RandomScheduler(seed))
        build(k)
        result = k.run()
        hits += pred(result, state)
    return hits / n


def test_buggy_schedule_rarity(benchmark, trials):
    fig4_pred = lambda result, state: state.get("hit", False)  # noqa: E731
    dl_pred = lambda result, state: result.deadlocked  # noqa: E731

    def experiment():
        rows = []
        for label, build_fn, pred in [
            ("figure4-style stale check", _figure4ish, fig4_pred),
            ("ABBA lock inversion", _inversion, dl_pred),
        ]:
            build, state = build_fn(False)
            holder = {}

            def observe(kernel, state=state):
                return dict(state)

            # Rebuild per schedule: state dict refreshed by build_fn closure.
            def build_fresh(kernel, build_fn=build_fn, holder=holder):
                b, s = build_fn(False)
                holder["state"] = s
                b(kernel)

            ex = explore(build_fresh, observe=lambda k: dict(holder["state"]))
            if pred is fig4_pred:
                buggy = ex.matching(lambda o: o.observed.get("hit", False))
            else:
                buggy = ex.matching(lambda o: o.result.deadlocked)
            rows.append(
                ExpRow(
                    label=label,
                    schedules=ex.count,
                    buggy=len(buggy),
                    random_prob=_random_prob(build_fn, pred),
                    bp_prob=_bp_prob(build_fn, pred) if pred is fig4_pred else float("nan"),
                )
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    # DeadlockTrigger equivalent for the inversion (breakpoint prob):
    rows[1].bp_prob = 1.0  # demonstrated at scale in bench_table1 (deadlock rows)
    emit("Exploration — rarity of buggy schedules (exhaustive enumeration)", render(rows))

    fig4, inv = rows
    assert fig4.schedules > 20
    assert 0 < fig4.buggy < fig4.schedules  # exists but rare
    assert fig4.buggy / fig4.schedules < 0.35
    assert fig4.random_prob < 0.25
    assert fig4.bp_prob >= 0.95
    assert 0 < inv.buggy < inv.schedules


def test_dpor_reduction(benchmark):
    """DPOR explores the same outcomes in far fewer schedules."""
    from repro.sim.dpor import explore_dpor

    def make_build():
        holder = {}

        def build(kernel):
            cells = [SharedCell(0, name=f"c{i}") for i in range(2)]
            holder["cells"] = cells

            def body(cell_idx, incs):
                for _ in range(incs):
                    v = yield from cells[cell_idx].get()
                    yield from cells[cell_idx].set(v + 1)

            kernel.spawn(body, 0, 2)
            kernel.spawn(body, 0, 1)
            kernel.spawn(body, 1, 2)

        return build, holder

    def experiment():
        build, holder = make_build()
        obs = lambda k: tuple(c.peek() for c in holder["cells"])  # noqa: E731
        full = explore(build, max_schedules=100_000, observe=obs)
        build2, holder2 = make_build()
        obs2 = lambda k: tuple(c.peek() for c in holder2["cells"])  # noqa: E731
        reduced, stats = explore_dpor(build2, max_schedules=100_000, observe=obs2)
        return full, reduced, stats

    full, reduced, stats = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(
        f"\nDPOR: {full.count} schedules -> {reduced.count} "
        f"({stats.branches_added} branches), outcomes preserved: "
        f"{ {o.observed for o in full.outcomes} == {o.observed for o in reduced.outcomes} }"
    )
    assert full.complete and reduced.complete
    assert {o.observed for o in full.outcomes} == {o.observed for o in reduced.outcomes}
    assert reduced.count < full.count / 3


def test_sleep_set_reduction(benchmark):
    """DPOR vs DPOR + sleep sets on the registered bank subject."""
    from repro.harness import explore_app

    def run(sleep_sets):
        t0 = time.perf_counter()
        res = explore_app(
            "bank", "lost_update", dpor=True, sleep_sets=sleep_sets,
            max_schedules=20_000, params={"iters": 2},
        )
        return res, time.perf_counter() - t0

    (plain, t_plain), (slept, t_slept) = benchmark.pedantic(
        lambda: (run(False), run(True)), rounds=1, iterations=1
    )
    sp, ss = plain.dpor_stats, slept.dpor_stats
    emit(
        "Exploration — sleep-set pruning on bank/lost_update",
        f"     plain DPOR: {sp.schedules} schedules, {sp.executed_steps} steps, "
        f"{t_plain:.2f}s ({sp.schedules / t_plain:.1f} schedules/sec)\n"
        f"sleep-set DPOR: {ss.schedules} schedules, {ss.executed_steps} steps, "
        f"{t_slept:.2f}s ({ss.sleep_set_prunes} subtrees pruned)\n"
        f"reduction: {sp.schedules / ss.schedules:.1f}x schedules, "
        f"{sp.executed_steps / ss.executed_steps:.1f}x steps",
    )
    beh = lambda r: sorted(  # noqa: E731
        set(repr(o.observed) for o in r.exploration.outcomes)
    )
    assert plain.exploration.complete and slept.exploration.complete
    assert beh(plain) == beh(slept)
    assert ss.sleep_set_prunes > 0
    assert ss.schedules < sp.schedules
    assert ss.executed_steps < sp.executed_steps
