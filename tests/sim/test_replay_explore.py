"""Schedule recording/replay and exhaustive exploration."""

from math import comb

import pytest

from repro.sim import (
    Exploration,
    Kernel,
    RecordingScheduler,
    ReplayDivergence,
    ReplayScheduler,
    SharedCell,
    SimLock,
    StatelessPool,
    Yield,
    explore,
)


def _racy_program(state):
    def build(kernel):
        state["cell"] = SharedCell(0, name="x")
        cell = state["cell"]

        def w():
            v = yield from cell.get()
            yield from cell.set(v + 1)

        kernel.spawn(w)
        kernel.spawn(w)

    return build


class TestRecordReplay:
    def _trace(self, kernel_factory, build):
        k = kernel_factory()
        build(k)
        k.run()
        return [(e.tid, e.op) for e in k.trace]

    def test_replay_reproduces_trace_exactly(self):
        state = {}
        build = _racy_program(state)
        rec = RecordingScheduler(seed=11)
        original = self._trace(lambda: Kernel(scheduler=rec, record_trace=True), build)
        replayed = self._trace(
            lambda: Kernel(scheduler=ReplayScheduler(rec.choices, strict=True), record_trace=True),
            build,
        )
        assert original == replayed

    def test_replay_reproduces_final_state(self):
        state = {}
        build = _racy_program(state)
        rec = RecordingScheduler(seed=3)
        k = Kernel(scheduler=rec)
        build(k)
        k.run()
        value = state["cell"].peek()
        k2 = Kernel(scheduler=ReplayScheduler(rec.choices))
        build(k2)
        k2.run()
        assert state["cell"].peek() == value

    def test_recording_length_equals_steps(self):
        state = {}
        rec = RecordingScheduler(seed=1)
        k = Kernel(scheduler=rec)
        _racy_program(state)(k)
        result = k.run()
        # One recorded choice per scheduled step (timers add none).
        assert len(rec.choices) == result.steps

    def test_strict_replay_raises_on_divergence(self):
        state = {}
        build = _racy_program(state)
        k = Kernel(scheduler=ReplayScheduler([99, 99], strict=True))
        build(k)
        # Divergence is a harness-level error: it propagates out of run().
        with pytest.raises(ReplayDivergence):
            k.run()

    def test_lenient_replay_falls_back(self):
        state = {}
        build = _racy_program(state)
        sched = ReplayScheduler([0])  # too short: falls back to min-tid
        k = Kernel(scheduler=sched)
        build(k)
        assert k.run().ok
        assert sched.replayed == 1


class TestExplore:
    def test_counts_independent_interleavings(self):
        # Two threads x 2 syscalls (+1 completion step each) = C(6,3).
        def build(kernel):
            c = SharedCell(0)

            def w():
                yield from c.get()
                yield from c.get()

            kernel.spawn(w)
            kernel.spawn(w)

        ex = explore(build)
        assert ex.complete
        assert ex.count == comb(6, 3)

    def test_single_thread_has_one_schedule(self):
        def build(kernel):
            c = SharedCell(0)

            def w():
                yield from c.get()
                yield from c.set(1)

            kernel.spawn(w)

        ex = explore(build)
        assert ex.count == 1

    def test_finds_both_racy_outcomes(self):
        state = {}
        ex = explore(_racy_program(state), observe=lambda k: state["cell"].peek())
        finals = {o.observed for o in ex.outcomes}
        assert finals == {1, 2}
        lost = ex.probability(lambda o: o.observed == 1)
        assert 0 < lost < 1

    def test_witness_is_replayable(self):
        state = {}
        ex = explore(_racy_program(state), observe=lambda k: state["cell"].peek())
        (witness,) = ex.witnesses(lambda o: o.observed == 1, limit=1)
        k = Kernel(scheduler=ReplayScheduler(witness, strict=True))
        _racy_program(state)(k)
        k.run()
        assert state["cell"].peek() == 1

    def test_finds_rare_deadlock_schedules(self):
        def build(kernel):
            la, lb = SimLock("A"), SimLock("B")

            def t1():
                yield from la.acquire()
                yield from lb.acquire()
                yield from lb.release()
                yield from la.release()

            def t2():
                yield from lb.acquire()
                yield from la.acquire()
                yield from la.release()
                yield from lb.release()

            kernel.spawn(t1)
            kernel.spawn(t2)

        ex = explore(build)
        assert ex.complete
        deadlocking = ex.matching(lambda o: o.result.deadlocked)
        clean = ex.matching(lambda o: o.result.ok)
        assert deadlocking and clean
        assert len(deadlocking) + len(clean) == ex.count

    def test_schedule_cap_reported(self):
        def build(kernel):
            c = SharedCell(0)

            def w():
                for _ in range(4):
                    yield from c.get()

            for _ in range(3):
                kernel.spawn(w)

        ex = explore(build, max_schedules=50)
        assert not ex.complete
        assert ex.count == 50

    def test_all_schedules_distinct(self):
        state = {}
        ex = explore(_racy_program(state))
        assert len({o.choices for o in ex.outcomes}) == ex.count

    def test_empty_program(self):
        ex = explore(lambda kernel: None)
        assert ex.count == 1 and ex.complete
        assert ex.probability(lambda o: True) == 1.0

    def test_probability_empty_exploration(self):
        assert Exploration([], True).probability(lambda o: True) == 0.0


def _drifting_build(first, later):
    """A build that is not a function of its kernel: ``first`` threads
    on the first call, ``later`` threads on every call after it."""
    calls = []

    def build(kernel):
        n = first if not calls else later
        calls.append(n)

        def w():
            for _ in range(3):
                yield Yield()

        for _ in range(n):
            kernel.spawn(w)

    return build


class TestForcedPrefixDivergence:
    """A forced prefix that the rebuilt program cannot follow is a loud
    :class:`ReplayDivergence`, never a bare ``StopIteration``."""

    @pytest.mark.parametrize(
        "later, runnable",
        [(1, r"\[0\]"), (2, r"\[0, 1\]")],
        ids=["one-runnable", "two-runnable"],
    )
    def test_pool_run_raises_with_depth_tid_and_runnable(self, later, runnable):
        # One runnable thread takes the pick's fast path, two the
        # general one.
        pool = StatelessPool(_drifting_build(3, later))
        assert pool.run([]).result.ok
        with pytest.raises(
            ReplayDivergence, match=rf"depth 2: tid 2 .*runnable tids {runnable}"
        ):
            pool.run([0, 0, 2])

    def test_explore_raises(self):
        with pytest.raises(ReplayDivergence, match="forced prefix diverged"):
            explore(_drifting_build(3, 1))
