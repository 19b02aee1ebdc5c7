"""Worker-pool semantics: persistence, recycling, crash respawn.

The pool's contract: workers are forked once and serve many jobs (the
fork-per-attempt tax is gone), yet every fault behaves exactly like the
old model — crashes respawn and retry, timeouts kill and never retry,
and a worker that served several different jobs in sequence returns
results bit-identical to fresh in-process runs (no state leaks between
jobs).
"""

import os
import select
import signal
import time

import pytest

from repro.apps import get_app
from repro.harness import run_trials
from repro.obs.metrics import MetricsRegistry
from repro.svc import ReproService, ReproClient, JobSpec
from repro.svc import executor
from repro.svc.jobs import stats_to_wire
from repro.svc.queue import BoundedJobQueue

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") and not hasattr(os, "posix_spawn"),
    reason="service tests need a POSIX process model",
)


def _crash_always(spec, attempt):
    """Fault hook: kill the worker on every attempt (module-level, picklable)."""
    os._exit(13)


def _crash_first(spec, attempt):
    """Fault hook: kill the worker on the first attempt only."""
    if attempt == 0:
        os._exit(13)


def _counter_value(snap, name):
    return snap.get(name, {}).get("value", 0)


class TestWorkerPersistence:
    def test_one_worker_serves_many_jobs_without_respawn(self):
        with ReproService(slots=1, queue_size=8) as svc:
            client = ReproClient(svc.address)
            pid0 = svc.executor.worker_pid(0)
            assert pid0 is not None
            for seed in range(3):
                stats = client.run(JobSpec(
                    app="figure4", bug="error1", trials=1, base_seed=seed, timeout=0.2
                ))
                assert stats.trials == 1
            # Same process served every job: no forks beyond the pre-fork.
            assert svc.executor.worker_pid(0) == pid0
            snap = client.metrics()
            assert _counter_value(snap, "svc.pool.spawned") == 1
            assert _counter_value(snap, "svc.pool.jobs") == 3
            assert _counter_value(snap, "svc.pool.crashes") == 0

    def test_sequential_mixed_jobs_stay_bit_identical(self):
        """One persistent worker, several different jobs: no state leaks."""
        with ReproService(slots=1, queue_size=8) as svc:
            client = ReproClient(svc.address)
            trials = JobSpec(app="figure4", bug="error1", trials=3, timeout=0.2)
            remote_a = client.run(trials)
            remote_explore = client.run(JobSpec(kind="explore", app="figure4",
                                                bug="error1", max_schedules=50))
            remote_b = client.run(trials)
            assert svc.executor.worker_pid(0) is not None
        direct = run_trials(get_app("figure4"), n=3, bug="error1", timeout=0.2)
        assert stats_to_wire(remote_a) == stats_to_wire(direct)
        assert stats_to_wire(remote_b) == stats_to_wire(direct)
        from repro.harness import explore_summary

        direct_explore = explore_summary("figure4", "error1", max_schedules=50)
        assert remote_explore.to_wire() == direct_explore.to_wire()


class TestRecycling:
    def test_worker_recycled_after_max_jobs(self, monkeypatch):
        monkeypatch.setattr(executor, "_WORKER_JOB_LIMIT", 2)
        with ReproService(slots=1, queue_size=8) as svc:
            client = ReproClient(svc.address)
            pids = set()
            for seed in range(4):
                client.run(JobSpec(
                    app="figure4", bug="error1", trials=1, base_seed=seed, timeout=0.2
                ))
                pids.add(svc.executor.worker_pid(0))
            snap = client.metrics()
            assert _counter_value(snap, "svc.pool.recycled") >= 1
            assert _counter_value(snap, "svc.pool.spawned") >= 2
            assert _counter_value(snap, "svc.pool.crashes") == 0
            assert len(pids) >= 2  # a fresh process took over mid-sequence


class TestFaultModel:
    def test_crash_respawns_worker_and_retries_job(self):
        with ReproService(
            slots=1, queue_size=8, fault_hook=_crash_first, max_job_retries=1
        ) as svc:
            client = ReproClient(svc.address)
            pid0 = svc.executor.worker_pid(0)
            stats = client.run(JobSpec(app="figure4", bug="error1", trials=1,
                                       timeout=0.2))
            assert stats.bug_hits == 1
            # The crash killed the pre-forked worker; a new one finished.
            assert svc.executor.worker_pid(0) != pid0
            snap = client.metrics()
            assert _counter_value(snap, "svc.pool.crashes") >= 1
            assert _counter_value(snap, "svc.pool.spawned") >= 2

    def test_repeated_crashes_exhaust_attempts(self):
        from repro.svc.client import JobFailed

        with ReproService(
            slots=1, queue_size=8, fault_hook=_crash_always, max_job_retries=1
        ) as svc:
            client = ReproClient(svc.address)
            with pytest.raises(JobFailed) as exc:
                client.run(JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2))
            assert exc.value.failure.kind == "crash"
            assert exc.value.failure.attempts == 2

    def test_timeout_is_neither_a_crash_nor_a_retry(self, gate):
        from repro.svc.client import JobFailed

        # The gate is never released: the job stalls past its budget.
        with ReproService(
            slots=1, queue_size=8, fault_hook=gate.hook, job_timeout=0.5,
            max_job_retries=2,
        ) as svc:
            client = ReproClient(svc.address)
            with pytest.raises(JobFailed) as exc:
                client.run(JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2))
            assert (exc.value.failure.kind, exc.value.failure.attempts) == ("timeout", 1)
            snap = client.metrics()
            assert _counter_value(snap, "svc.pool.crashes") == 0
            assert _counter_value(snap, "svc.jobs.retries") == 0
            # The killed worker was replaced: two forks in all.
            assert _counter_value(snap, "svc.pool.spawned") == 2

    def test_pool_survives_shutdown_with_hung_worker(self, gate):
        """Hard close while a worker is hung must not wedge the service."""
        svc = ReproService(
            slots=1, queue_size=8, fault_hook=gate.hook, job_timeout=30.0
        ).start()
        client = ReproClient(svc.address)
        job_id = client.submit(JobSpec(app="figure4", bug="error1", trials=1,
                                       timeout=0.2))
        gate.started()  # the worker is held in the hook and never let go
        start = time.monotonic()
        svc.close()
        assert time.monotonic() - start < 10.0
        assert job_id  # the submission itself succeeded


class TestDaemonDeath:
    @pytest.mark.skipif(
        not hasattr(os, "pidfd_open"), reason="needs os.pidfd_open (Linux)"
    )
    def test_workers_exit_when_their_daemon_is_sigkilled(self):
        """A daemon SIGKILLed with idle workers must not orphan them:
        each worker sees EOF on its pipe and exits."""
        report_r, report_w = os.pipe()
        daemon = os.fork()
        if daemon == 0:  # the daemon: start a pool, report, wait to die
            try:
                os.close(report_r)
                daemon_executor = executor.JobExecutor(
                    BoundedJobQueue(1), MetricsRegistry(), slots=2
                )
                daemon_executor.start(lambda fn: fn())
                pids = " ".join(str(daemon_executor.worker_pid(s)) for s in range(2))
                os.write(report_w, pids.encode())
                signal.pause()
            finally:
                os._exit(0)
        os.close(report_w)
        reaped, alive = False, []
        try:
            ready, _, _ = select.select([report_r], [], [], 60)
            workers = os.read(report_r, 256).split() if ready else []
            assert len(workers) == 2, "the daemon never reported its workers"
            # Opened while the daemon still holds them: no pid reuse.
            alive = [os.pidfd_open(int(pid)) for pid in workers]
            os.kill(daemon, signal.SIGKILL)
            os.waitpid(daemon, 0)
            reaped = True
            deadline = time.monotonic() + 20
            while alive and time.monotonic() < deadline:
                timeout = max(0.0, deadline - time.monotonic())
                ready, _, _ = select.select(alive, [], [], timeout)
                for fd in ready:
                    alive.remove(fd)
                    os.close(fd)
            assert not alive, "pool workers outlived their SIGKILLed daemon"
        finally:
            if not reaped:
                os.kill(daemon, signal.SIGKILL)
                os.waitpid(daemon, 0)
            for fd in alive:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
                os.close(fd)
            os.close(report_r)
