"""The differential battery: the service is a transport, not a semantics.

Every test here asserts the same contract from a different angle: a
result returned through ``repro.svc`` is **bit-identical** to the direct
in-process library call with the same spec — including when the job's
worker process is crashed underneath it, when the client disconnects
mid-wait, and when the job fans its trials over the parallel harness
pool.  Volatile metrics (wall-clock latencies) are exempt, exactly as in
the parallel-vs-serial contract of ``repro.harness.parallel``.
"""

import os
import socket
import threading

import pytest

from repro.apps import get_app
from repro.harness import explore_app, explore_summary, run_trials
from repro.obs.metrics import deterministic_view
from repro.sim.explore import Bound
from repro.svc import JobFailed, JobSpec, ReproClient, ReproService
from repro.svc.jobs import stats_from_wire

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="differential battery exercises forked children"
)


def _crash_first_attempt(spec, attempt):
    """Kill the job child hard on its first attempt (module-level: picklable)."""
    if attempt == 0:
        os._exit(17)


def _always_crash(spec, attempt):
    """Kill the job child on every attempt."""
    os._exit(17)


def _raise_first_attempt(spec, attempt):
    """Raise inside the job child on its first attempt."""
    if attempt == 0:
        raise RuntimeError("injected exception")


def assert_stats_identical(remote, direct):
    """Bit-identical up to volatile metrics (the documented exemption)."""
    assert remote.app == direct.app and remote.bug == direct.bug
    assert remote.trials == direct.trials
    assert remote.bug_hits == direct.bug_hits
    assert remote.bp_hits == direct.bp_hits
    assert remote.runtimes == direct.runtimes  # exact float equality
    assert remote.error_times == direct.error_times
    assert remote.failures == direct.failures
    if direct.metrics is None:
        assert remote.metrics is None
    else:
        assert deterministic_view(remote.metrics) == deterministic_view(direct.metrics)


class TestTrialsDifferential:
    def test_service_equals_direct_run_trials(self):
        svc = ReproService(slots=2, queue_size=8).start()
        try:
            client = ReproClient(svc.address)
            for app, bug, n in [("figure4", "error1", 6), ("stringbuffer", "atomicity1", 5)]:
                remote = client.run(JobSpec(app=app, bug=bug, trials=n, timeout=0.2,
                                            base_seed=3))
                direct = run_trials(get_app(app), n=n, bug=bug, timeout=0.2, base_seed=3)
                assert_stats_identical(remote, direct)
                assert remote == direct  # no metrics: fully identical objects
        finally:
            svc.close()

    def test_service_equals_direct_with_metrics(self):
        svc = ReproService(slots=2, queue_size=8).start()
        try:
            client = ReproClient(svc.address)
            remote = client.run(JobSpec(app="figure4", bug="error1", trials=4,
                                        timeout=0.2, collect_metrics=True))
            direct = run_trials(get_app("figure4"), n=4, bug="error1", timeout=0.2,
                                collect_metrics=True)
            assert remote.metrics is not None
            assert_stats_identical(remote, direct)
        finally:
            svc.close()

    def test_service_job_with_parallel_workers_equals_serial_direct(self):
        """A job fanned over the harness pool inside the daemon still
        returns the serial-direct result (PR-1 contract, composed)."""
        svc = ReproService(slots=1, queue_size=4).start()
        try:
            client = ReproClient(svc.address)
            remote = client.run(JobSpec(app="figure4", bug="error1", trials=8,
                                        timeout=0.2, workers=2))
            direct = run_trials(get_app("figure4"), n=8, bug="error1", timeout=0.2)
            assert remote == direct
        finally:
            svc.close()


class TestCrashInjection:
    def test_crashed_job_child_retries_to_identical_result(self):
        svc = ReproService(slots=2, queue_size=8, max_job_retries=2,
                           fault_hook=_crash_first_attempt).start()
        try:
            client = ReproClient(svc.address)
            job_id = client.submit(JobSpec(app="figure4", bug="error1", trials=5,
                                           timeout=0.2))
            record = client.wait(job_id, timeout=60)
            assert record["attempts"] == 2  # one crash, one clean re-run
            direct = run_trials(get_app("figure4"), n=5, bug="error1", timeout=0.2)
            assert stats_from_wire(record["result"]) == direct
            snap = client.metrics()
            assert snap["svc.jobs.retries"]["value"] >= 1
        finally:
            svc.close()

    def test_exception_in_job_child_retries_to_identical_result(self):
        svc = ReproService(slots=1, queue_size=4, max_job_retries=1,
                           fault_hook=_raise_first_attempt).start()
        try:
            client = ReproClient(svc.address)
            remote = client.run(JobSpec(app="figure4", bug="error1", trials=4,
                                        timeout=0.2))
            direct = run_trials(get_app("figure4"), n=4, bug="error1", timeout=0.2)
            assert remote == direct
        finally:
            svc.close()

    def test_exhausted_retries_fail_with_trialfailure_accounting(self):
        svc = ReproService(slots=1, queue_size=4, max_job_retries=1,
                           fault_hook=_always_crash).start()
        try:
            client = ReproClient(svc.address)
            with pytest.raises(JobFailed) as exc:
                client.run(JobSpec(app="figure4", bug="error1", trials=2, timeout=0.2))
            failure = exc.value.failure
            assert failure.kind == "crash"
            assert failure.attempts == 2  # initial + 1 retry
            assert client.metrics()["svc.jobs.failed"]["value"] == 1
            # the service survives its jobs' deaths
            assert client.health()["status"] == "ok"
        finally:
            svc.close()

    def test_job_timeout_kills_and_is_not_retried(self, gate):
        # The gate is never released: the job child stalls past its budget.
        svc = ReproService(slots=1, queue_size=4, job_timeout=0.4,
                           max_job_retries=3, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            with pytest.raises(JobFailed) as exc:
                client.run(JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2))
            failure = exc.value.failure
            assert failure.kind == "timeout"
            assert failure.attempts == 1  # deterministic: never retried
        finally:
            svc.close()


class TestClientDisconnect:
    def test_result_survives_disconnect_mid_wait(self, gate, monkeypatch):
        """A client that vanishes during a long-poll loses nothing: the
        job completes once and the result is identical on re-fetch."""
        handle_get_job, parked = ReproService._handle_get_job, threading.Event()

        def parking(service, request, token):
            response = handle_get_job(service, request, token)
            parked.set()
            return response

        monkeypatch.setattr(ReproService, "_handle_get_job", parking)
        svc = ReproService(slots=1, queue_size=4, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            job_id = client.submit(JobSpec(app="figure4", bug="error1", trials=6,
                                           timeout=0.2))
            gate.started()  # the job is held until the long-poll has parked
            # raw long-poll, then slam the connection shut mid-wait
            sock = socket.create_connection((svc.host, svc.port), timeout=5)
            sock.sendall(
                f"GET /jobs/{job_id}?wait=30 HTTP/1.1\r\n"
                f"Host: {svc.host}\r\nConnection: close\r\n\r\n".encode()
            )
            assert parked.wait(timeout=60)
            sock.close()
            gate.release()
            # a fresh client still reads the one-and-only execution
            record = client.wait(job_id, timeout=60)
            assert record["attempts"] == 1
            direct = run_trials(get_app("figure4"), n=6, bug="error1", timeout=0.2)
            assert stats_from_wire(record["result"]) == direct
        finally:
            svc.close()


class TestExploreDifferential:
    def test_explore_summary_equals_direct(self):
        svc = ReproService(slots=2, queue_size=8).start()
        try:
            client = ReproClient(svc.address)
            remote = client.run(JobSpec(kind="explore", app="bank", bug="lost_update",
                                        dpor=True, sleep_sets=True, max_schedules=2000))
            direct = explore_app("bank", "lost_update", dpor=True,
                                 sleep_sets=True, max_schedules=2000)
            assert remote.schedules == direct.exploration.count
            assert remote.complete == direct.exploration.complete
            assert remote.hits == direct.hits
            assert remote.hit_fraction == direct.hit_fraction
            assert remote.hit_probability == direct.hit_probability
            assert remote.dpor["branches_added"] == direct.dpor_stats.branches_added
            assert remote.dpor["sleep_set_prunes"] == direct.dpor_stats.sleep_set_prunes
        finally:
            svc.close()

    def test_explore_crash_injection_identical_after_retry(self):
        svc = ReproService(slots=1, queue_size=4, max_job_retries=2,
                           fault_hook=_crash_first_attempt).start()
        try:
            client = ReproClient(svc.address)
            remote = client.run(JobSpec(kind="explore", app="figure4", max_schedules=12))
            direct = explore_app("figure4", max_schedules=12)
            assert remote.schedules == direct.exploration.count
            assert remote.hits == direct.hits
            assert remote.hit_fraction == direct.hit_fraction
        finally:
            svc.close()

    def test_bounded_explore_with_params_equals_direct(self):
        """Every explore field travels: a preemption bound and workload
        params reach the daemon's call as they reach the direct one."""
        svc = ReproService(slots=1, queue_size=4).start()
        try:
            client = ReproClient(svc.address)
            remote = client.run(JobSpec(kind="explore", app="bank", bug="lost_update",
                                        params={"iters": 2}, bound_preemptions=1))
        finally:
            svc.close()
        direct = explore_summary("bank", "lost_update", params={"iters": 2},
                                 bound=Bound(preemptions=1))
        assert remote == direct
        assert remote.bound == {"preemptions": 1, "variables": None}
        # The params changed the walk: the default workload explores more.
        unparameterized = explore_summary("bank", "lost_update",
                                          bound=Bound(preemptions=1))
        assert remote.schedules < unparameterized.schedules
