"""Bounded queue semantics: FIFO, backpressure, drain, concurrency.

The queue is a plain object its owner's event loop drives; concurrent
submitters reach it the way the daemon's callers do, through
:meth:`AsyncHTTPFrontend.call`, which runs each put on the loop thread.
"""

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.svc.executor import JobExecutor
from repro.svc.http import AsyncHTTPFrontend, Response
from repro.svc.jobs import JobRecord, JobSpec
from repro.svc.queue import BoundedJobQueue, QueueClosed, QueueFull


def _record(i):
    return JobRecord(f"job-{i:06d}", JobSpec(app="figure4", bug="error1", trials=1))


@pytest.fixture()
def owner():
    """A running event loop that owns the queue under test."""
    frontend = AsyncHTTPFrontend(lambda request, token: Response(404, {}), name="q-owner")
    yield frontend.start()
    frontend.stop()


class TestBoundedJobQueue:
    def test_fifo_order(self):
        q = BoundedJobQueue(8)
        records = [_record(i) for i in range(5)]
        for r in records:
            q.put(r)
        assert [q.get().id for _ in records] == [r.id for r in records]

    def test_full_queue_rejects_with_retry_hint(self):
        q = BoundedJobQueue(2, retry_hint=lambda: 3.5)
        q.put(_record(0))
        q.put(_record(1))
        with pytest.raises(QueueFull) as exc:
            q.put(_record(2))
        assert exc.value.retry_after == 3.5

    def test_default_retry_hint_is_positive(self):
        q = BoundedJobQueue(1)
        q.put(_record(0))
        with pytest.raises(QueueFull) as exc:
            q.put(_record(1))
        assert exc.value.retry_after > 0

    def test_close_refuses_puts_but_serves_backlog(self):
        q = BoundedJobQueue(4)
        q.put(_record(0))
        q.put(_record(1))
        q.close()
        with pytest.raises(QueueClosed):
            q.put(_record(2))
        assert q.get().id == "job-000000"
        assert q.get().id == "job-000001"
        assert q.get() is None  # closed and empty

    def test_get_on_an_empty_queue_returns_none(self):
        q = BoundedJobQueue(4)
        assert q.get() is None

    def test_depth_gauge_tracks_transitions(self):
        reg = MetricsRegistry()
        q = BoundedJobQueue(4, metrics=reg)
        q.put(_record(0))
        q.put(_record(1))
        assert reg.gauge("svc.queue.depth", volatile=True).value == 2
        assert reg.gauge("svc.queue.high_water", volatile=True).value == 2
        q.get()
        assert reg.gauge("svc.queue.depth", volatile=True).value == 1
        assert reg.gauge("svc.queue.high_water", volatile=True).value == 2

    def test_rejection_counter(self):
        reg = MetricsRegistry()
        q = BoundedJobQueue(1, metrics=reg)
        q.put(_record(0))
        with pytest.raises(QueueFull):
            q.put(_record(1))
        assert reg.counter("svc.queue.rejected", volatile=True).value == 1

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            BoundedJobQueue(0)


class TestConcurrentSubmitters:
    def test_per_submitter_admission_order_is_preserved(self, owner):
        """Many threads race put(); each thread's records stay FIFO.

        The owner's loop serialises admissions, so whatever global
        interleaving the race produces, the per-producer order — the
        property clients observe — must survive.
        """
        producers, per_thread = 8, 25
        q = BoundedJobQueue(producers * per_thread)
        barrier = threading.Barrier(producers)

        def produce(tid):
            barrier.wait()
            for seq in range(per_thread):
                owner.call(lambda: q.put(_record(tid * 1000 + seq)))

        threads = [
            threading.Thread(target=produce, args=(tid,)) for tid in range(producers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        drained = []
        while (rec := q.get()) is not None:
            drained.append(rec.id)
        assert len(drained) == producers * per_thread
        for tid in range(producers):
            mine = [i for i in drained if i.startswith(f"job-00{tid}")]
            assert mine == sorted(mine)

    def test_overloaded_queue_rejects_every_excess_submitter(self, owner):
        """Sustained overload: exactly capacity admissions, rest rejected
        with positive, finite Retry-After hints."""
        reg = MetricsRegistry()
        q = BoundedJobQueue(4, metrics=reg)
        admitted, rejected, hints = [], [], []
        lock = threading.Lock()
        barrier = threading.Barrier(16)

        def submit(i):
            barrier.wait()
            try:
                owner.call(lambda: q.put(_record(i)))
                with lock:
                    admitted.append(i)
            except QueueFull as exc:
                with lock:
                    rejected.append(i)
                    hints.append(exc.retry_after)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(admitted) == 4
        assert len(rejected) == 12
        assert all(0 < h <= 30.0 for h in hints)
        assert reg.counter("svc.queue.rejected", volatile=True).value == 12

    def test_retry_hints_grow_monotonically_with_the_latency_ema(self):
        """Under sustained overload the executor's EMA tracks rising job
        latencies, so successive Retry-After hints never shrink while
        latencies climb — clients back off harder, not softer."""
        q = BoundedJobQueue(4)
        ex = JobExecutor(q, MetricsRegistry(), slots=2)
        hints = []
        for latency in (0.2, 0.5, 1.0, 2.0, 4.0):
            rec = _record(0)
            rec.submitted_at = time.monotonic() - latency
            ex._note_done(rec, failed=False)
            hints.append(ex.retry_hint())
        assert hints == sorted(hints)
        assert hints[-1] > hints[0]
        assert all(0 < h <= 30.0 for h in hints)

    def test_close_while_full(self):
        """Closing a full queue: puts flip from QueueFull to QueueClosed,
        the backlog drains in order, then getters see the exit signal."""
        q = BoundedJobQueue(3)
        for i in range(3):
            q.put(_record(i))
        with pytest.raises(QueueFull):
            q.put(_record(3))
        q.close()
        with pytest.raises(QueueClosed):  # closed now wins over full
            q.put(_record(4))
        assert [q.get().id for _ in range(3)] == [
            "job-000000", "job-000001", "job-000002",
        ]
        assert q.get() is None

    def test_concurrent_close_while_submitters_race(self, owner):
        """close() during a submission storm: every put() resolves to
        admitted, QueueFull, or QueueClosed — never a hang or a leak —
        and the drained backlog matches the admissions exactly."""
        q = BoundedJobQueue(8)
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(12 + 1)

        def submit(i):
            barrier.wait()
            try:
                owner.call(lambda: q.put(_record(i)))
                with lock:
                    outcomes.append("ok")
            except QueueFull:
                with lock:
                    outcomes.append("full")
            except QueueClosed:
                with lock:
                    outcomes.append("closed")

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        barrier.wait()
        owner.call(q.close)
        for t in threads:
            t.join(timeout=10)
        assert len(outcomes) == 12
        admitted = outcomes.count("ok")
        drained = 0
        while q.get() is not None:
            drained += 1
        assert drained == admitted <= 8
