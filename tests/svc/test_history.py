"""The daemon's job history: bounded, oldest finished record first.

The service is never started here: submitted records stay queued until
a test moves them, so every eviction decision is driven by hand.
"""

import pytest

from repro.svc import JobSpec, ReproService
from repro.svc import server
from repro.svc.jobs import JobRecord

LIMIT = 4


@pytest.fixture
def svc(monkeypatch):
    monkeypatch.setattr(server, "_HISTORY_LIMIT", LIMIT)
    return ReproService(slots=1, queue_size=256)


def _submit(svc):
    return svc.submit(JobSpec(kind="trials", app="figure4", bug="error1", trials=1))


def _finish(record):
    record.mark_running()
    record.finish({})


def _history(svc):
    return [rec["id"] for rec in svc.list_jobs()]


class TestHistoryEviction:
    def test_bounded_by_limit_plus_unfinished(self, svc):
        queued = _submit(svc)
        running = _submit(svc)
        running.mark_running()
        for _ in range(3 * LIMIT):
            _finish(_submit(svc))
            unfinished = sum(not svc.get_job(j).terminal for j in _history(svc))
            assert len(_history(svc)) <= LIMIT + unfinished
        assert svc.get_job(queued.id) is queued
        assert svc.get_job(running.id) is running

    def test_oldest_finished_record_goes_first(self, svc):
        done = []
        for _ in range(LIMIT):
            rec = _submit(svc)
            _finish(rec)
            done.append(rec.id)
        newest = _submit(svc)
        # One over the limit: only the oldest finished record is evicted.
        assert _history(svc) == done[1:] + [newest.id]

    def test_unfinished_records_are_never_evicted(self, svc):
        unfinished = [_submit(svc) for _ in range(LIMIT + 2)]
        unfinished[0].mark_running()
        more = [_submit(svc) for _ in range(3)]
        assert _history(svc) == [rec.id for rec in unfinished + more]
        _finish(unfinished[3])
        _submit(svc)
        assert unfinished[3].id not in _history(svc)
        assert all(svc.get_job(rec.id) is rec for rec in unfinished if rec is not unfinished[3])

    def test_eviction_stops_after_the_excess(self, svc, monkeypatch):
        # Two unfinished records at the head of a full history: a submit
        # reads them and the one finished record it evicts, never the rest.
        _submit(svc)
        _submit(svc).mark_running()
        for _ in range(2 * LIMIT):
            _finish(_submit(svc))
        reads = []
        terminal = JobRecord.terminal
        monkeypatch.setattr(JobRecord, "terminal",
                            property(lambda rec: reads.append(rec.id) or terminal.fget(rec)))
        _finish(_submit(svc))
        assert len(reads) == 3
