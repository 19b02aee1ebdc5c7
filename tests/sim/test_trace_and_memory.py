"""Trace recording, location attribution, and shared memory."""

from repro.sim import Kernel, RoundRobinScheduler, SharedArray, SharedCell, SimLock, Yield
from repro.sim.syscalls import Annotate, BeginAtomic, EndAtomic
from repro.sim.trace import OP, Trace


class TestSharedMemory:
    def test_cell_get_set(self):
        c = SharedCell(10, name="x")

        def t():
            v = yield from c.get()
            yield from c.set(v * 2)

        k = Kernel()
        k.spawn(t)
        k.run()
        assert c.peek() == 20

    def test_peek_poke_do_not_trace(self):
        c = SharedCell(0)
        k = Kernel(record_trace=True)

        def t():
            c.poke(5)
            assert c.peek() == 5
            yield Yield()

        k.spawn(t)
        k.run()
        assert not [e for e in k.trace if e.op in (OP.READ, OP.WRITE)]

    def test_array_indexing_and_add(self):
        arr = SharedArray(4, fill=1, name="a")

        def t():
            yield from arr.set(2, 10)
            yield from arr.add(2, 5)
            v = yield from arr.get(2)
            assert v == 15

        k = Kernel()
        k.spawn(t)
        assert k.run().ok
        assert arr.snapshot() == [1, 1, 15, 1]
        assert len(arr) == 4

    def test_array_elements_are_distinct_cells(self):
        arr = SharedArray(2, name="a")
        assert arr.cells[0] is not arr.cells[1]
        assert arr.cells[0].name != arr.cells[1].name


class TestTraceRecording:
    def _traced_run(self):
        cell = SharedCell(0, name="c")
        lock = SimLock("L")

        def t():
            yield from lock.acquire(loc="App.java:10")
            yield from cell.set(1, loc="App.java:11")
            v = yield from cell.get(loc="App.java:12")
            yield from lock.release(loc="App.java:13")
            yield BeginAtomic("region")
            yield EndAtomic("region")
            yield Annotate("marker", {"k": 1})
            del v

        k = Kernel(record_trace=True, scheduler=RoundRobinScheduler())
        k.spawn(t, name="worker")
        k.run()
        return k.trace, cell, lock

    def test_explicit_loc_tags_used(self):
        trace, cell, lock = self._traced_run()
        acq = trace.by_op(OP.ACQUIRE)
        assert acq and acq[0].loc == "App.java:10"
        writes = trace.by_op(OP.WRITE)
        assert writes[0].loc == "App.java:11"

    def test_read_write_carry_values(self):
        trace, cell, _ = self._traced_run()
        assert trace.by_op(OP.WRITE)[0].extra == 1
        assert trace.by_op(OP.READ)[0].extra == 1

    def test_query_helpers(self):
        trace, cell, lock = self._traced_run()
        assert trace.by_thread("worker")
        assert trace.by_obj(cell)
        assert len(trace.annotations("marker")) == 1
        assert len(trace.annotations()) == 1
        assert trace.annotations("other") == []

    def test_atomic_markers_recorded(self):
        trace, _, _ = self._traced_run()
        assert trace.by_op(OP.ATOMIC_BEGIN)[0].extra == "region"
        assert trace.by_op(OP.ATOMIC_END)[0].extra == "region"

    def test_acquire_release_balanced(self):
        trace, _, lock = self._traced_run()
        acq = [e for e in trace if e.op == OP.ACQUIRE and e.obj is lock]
        rel = [e for e in trace if e.op == OP.RELEASE and e.obj is lock]
        assert len(acq) == len(rel) == 1

    def test_derived_location_when_untagged(self):
        cell = SharedCell(0)

        def t():
            yield from cell.set(1)  # no loc tag: derived from the frame

        k = Kernel(record_trace=True)
        k.spawn(t)
        k.run()
        loc = k.trace.by_op(OP.WRITE)[0].loc
        assert ".py:" in loc

    def test_trace_disabled_by_default(self):
        k = Kernel()
        assert k.trace is None

    def test_columns_match_the_event_view(self):
        trace, _, _ = self._traced_run()
        ops, objs, steps = trace.columns("op", "obj", "step")
        assert ops == [e.op for e in trace]
        assert all(a is e.obj for a, e in zip(objs, trace))
        assert steps == [e.step for e in trace]
        assert trace.columns() == ()

    def test_format_and_len(self):
        trace, _, _ = self._traced_run()
        assert len(trace) > 0
        text = trace.format(limit=3)
        assert text.count("\n") == 2

    def test_fork_end_events(self):
        def child():
            yield Yield()

        def parent(kernel):
            kernel.spawn(child, name="kid")
            yield Yield()

        k = Kernel(record_trace=True)
        k.spawn(parent, k, name="dad")
        k.run()
        forks = k.trace.by_op(OP.FORK)
        ends = k.trace.by_op(OP.END)
        assert len(forks) == 2  # dad from main, kid from dad
        assert len(ends) == 2

    def test_trace_event_repr(self):
        trace = Trace()
        trace.append(0.5, 1, "t1", OP.READ, None, "f.py:3", 7)
        ev = trace.events[0]
        assert "t1" in repr(ev) and "read" in repr(ev)
